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

use serde::Serialize;
use serde_json::{Map, Value};
use std::borrow::Cow;
use std::fmt;
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
    let body = Frame(msg.members()).to_string();
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

/// One member of a message's JSON object: a field built for the frame,
/// or a payload document (config, snapshot, record) borrowed from the
/// message, so that printing a frame copies no payload.
type Member<'a> = (&'static str, Cow<'a, Value>);

/// A message's members, printed as the compact JSON text of the object
/// [`Msg::to_value`] builds from them.
struct Frame<'a>(Vec<Member<'a>>);

impl fmt::Display for Frame<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (key, value)) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            // Keys are plain identifiers: nothing to escape.
            write!(f, "\"{key}\":{value}")?;
        }
        f.write_str("}")
    }
}

/// A member built for the frame.
fn owned<T: Serialize + ?Sized>(value: &T) -> Cow<'static, Value> {
    Cow::Owned(serde_json::to_value(value))
}

/// The `type` member naming a message.
fn kind(name: &'static str) -> Member<'static> {
    ("type", owned(name))
}

/// Takes the member `key` out of a parsed frame, if present.
fn take_field(v: &mut Value, key: &str) -> Option<Value> {
    v.get_mut(key).map(Value::take)
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
        Msg::from_value(value).map_err(|why| io::Error::new(io::ErrorKind::InvalidData, why))?;
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
    fn members(&self) -> Vec<Member<'_>> {
        vec![
            kind("lease_grant"),
            ("lease", owned(&self.lease)),
            ("job", owned(&self.job)),
            ("trial", owned(&self.trial)),
            ("seed", owned(&self.seed)),
            ("attempt", owned(&self.attempt)),
            ("config", Cow::Borrowed(&self.config)),
            ("deadline_ms", owned(&self.deadline_ms)),
            ("trial_deadline_ms", owned(&self.trial_deadline_ms)),
            ("ckpt_every", owned(&self.ckpt_every)),
            ("trace_id", owned(&self.trace_id)),
            ("snapshot", self.snapshot.as_ref().map_or(Cow::Owned(Value::Null), Cow::Borrowed)),
        ]
    }

    fn from_value(mut v: Value) -> Result<Self, String> {
        Ok(Self {
            lease: str_field(&v, "lease")?,
            job: str_field(&v, "job")?,
            trial: usize_field(&v, "trial")?,
            seed: u64_field(&v, "seed")?,
            attempt: usize_field(&v, "attempt")?,
            config: take_field(&mut v, "config").ok_or("lease_grant: `config` missing")?,
            deadline_ms: u64_field(&v, "deadline_ms")?,
            trial_deadline_ms: v.get("trial_deadline_ms").and_then(Value::as_u64),
            ckpt_every: usize_field(&v, "ckpt_every")?,
            trace_id: str_field(&v, "trace_id")?,
            snapshot: take_field(&mut v, "snapshot").filter(|s| !s.is_null()),
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
        let mut object = Map::new();
        for (key, value) in self.members() {
            object.insert(key.to_string(), value.into_owned());
        }
        Value::Object(object)
    }

    /// The members of the message's JSON object, in wire order.
    fn members(&self) -> Vec<Member<'_>> {
        match self {
            Msg::Hello { worker } => vec![kind("hello"), ("worker", owned(worker))],
            Msg::HelloOk => vec![kind("hello_ok")],
            Msg::Heartbeat { worker } => vec![kind("heartbeat"), ("worker", owned(worker))],
            Msg::HeartbeatOk { drain } => vec![kind("heartbeat_ok"), ("drain", owned(drain))],
            Msg::LeaseRequest { worker } => vec![kind("lease_request"), ("worker", owned(worker))],
            Msg::Grant(grant) => grant.members(),
            Msg::NoWork { backoff_ms } => vec![kind("no_work"), ("backoff_ms", owned(backoff_ms))],
            Msg::Drain => vec![kind("drain")],
            Msg::TrialCheckpoint { worker, lease, snapshot, cache_total } => vec![
                kind("trial_checkpoint"),
                ("worker", owned(worker)),
                ("lease", owned(lease)),
                ("snapshot", Cow::Borrowed(snapshot)),
                ("cache_total", owned(cache_total)),
            ],
            Msg::CheckpointOk => vec![kind("checkpoint_ok")],
            Msg::CheckpointRejected { reason } => {
                vec![kind("checkpoint_rejected"), ("reason", owned(reason))]
            }
            Msg::LeaseRevoked => vec![kind("lease_revoked")],
            Msg::TrialResult { worker, lease, job, trial, seed, record } => vec![
                kind("trial_result"),
                ("worker", owned(worker)),
                ("lease", owned(lease)),
                ("job", owned(job)),
                ("trial", owned(trial)),
                ("seed", owned(seed)),
                ("record", Cow::Borrowed(record)),
            ],
            Msg::ResultOk { duplicate } => vec![kind("result_ok"), ("duplicate", owned(duplicate))],
            Msg::TrialError { worker, lease, error } => vec![
                kind("trial_error"),
                ("worker", owned(worker)),
                ("lease", owned(lease)),
                ("error", owned(error)),
            ],
            Msg::Bye { worker } => vec![kind("bye"), ("worker", owned(worker))],
            Msg::ByeOk => vec![kind("bye_ok")],
            Msg::Error { message } => vec![kind("error"), ("message", owned(message))],
        }
    }

    /// Parses a message from its tagged JSON object form, moving the
    /// payload documents out of `v`.
    ///
    /// # Errors
    /// A human-readable description of the first violated rule.
    pub fn from_value(mut v: Value) -> Result<Self, String> {
        let kind = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or("message: `type` missing or not a string")?
            .to_owned();
        match kind.as_str() {
            "hello" => Ok(Msg::Hello { worker: str_field(&v, "worker")? }),
            "hello_ok" => Ok(Msg::HelloOk),
            "heartbeat" => Ok(Msg::Heartbeat { worker: str_field(&v, "worker")? }),
            "heartbeat_ok" => Ok(Msg::HeartbeatOk { drain: bool_field(&v, "drain")? }),
            "lease_request" => Ok(Msg::LeaseRequest { worker: str_field(&v, "worker")? }),
            "lease_grant" => Ok(Msg::Grant(LeaseGrant::from_value(v)?)),
            "no_work" => Ok(Msg::NoWork { backoff_ms: u64_field(&v, "backoff_ms")? }),
            "drain" => Ok(Msg::Drain),
            "trial_checkpoint" => Ok(Msg::TrialCheckpoint {
                worker: str_field(&v, "worker")?,
                lease: str_field(&v, "lease")?,
                snapshot: take_field(&mut v, "snapshot")
                    .ok_or("trial_checkpoint: `snapshot` missing")?,
                cache_total: usize_field(&v, "cache_total")?,
            }),
            "checkpoint_ok" => Ok(Msg::CheckpointOk),
            "checkpoint_rejected" => {
                Ok(Msg::CheckpointRejected { reason: str_field(&v, "reason")? })
            }
            "lease_revoked" => Ok(Msg::LeaseRevoked),
            "trial_result" => Ok(Msg::TrialResult {
                worker: str_field(&v, "worker")?,
                lease: str_field(&v, "lease")?,
                job: str_field(&v, "job")?,
                trial: usize_field(&v, "trial")?,
                seed: u64_field(&v, "seed")?,
                record: take_field(&mut v, "record").ok_or("trial_result: `record` missing")?,
            }),
            "result_ok" => Ok(Msg::ResultOk { duplicate: bool_field(&v, "duplicate")? }),
            "trial_error" => Ok(Msg::TrialError {
                worker: str_field(&v, "worker")?,
                lease: str_field(&v, "lease")?,
                error: str_field(&v, "error")?,
            }),
            "bye" => Ok(Msg::Bye { worker: str_field(&v, "worker")? }),
            "bye_ok" => Ok(Msg::ByeOk),
            "error" => Ok(Msg::Error { message: str_field(&v, "message")? }),
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
    use serde_json::json;

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

    /// The frame body `write_frame` prints for `msg`.
    fn frame_text(msg: &Msg) -> String {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, msg).expect("write");
        String::from_utf8(buf.split_off(4)).expect("utf-8 frame")
    }

    /// A real mid-run GA snapshot: floats in costs, history and settings.
    fn real_snapshot() -> Value {
        let mut snapshot = None;
        let mut sink = |c: cold::ga::GaCheckpoint| snapshot = Some(c.to_value());
        let checkpoint = Some(cold::ga::CheckpointHook { every: 2, sink: &mut sink });
        let options = cold::RunOptions { checkpoint, ..cold::RunOptions::default() };
        let spec = cold::TrialSpec::new(7, cold::TrialObjective::Cost);
        cold::ColdConfig::quick(6, 4e-4, 10.0).run_trial(spec, options).expect("trial");
        snapshot.expect("a snapshot at generation 2")
    }

    /// Frames print exactly the bytes the `Value`-tree encoder
    /// (`serde_json::to_string` of the tagged object) printed, with the
    /// payload documents printed by `serde_json::to_string` in place.
    #[test]
    fn frames_print_the_value_encoders_bytes_for_every_message() {
        let snapshot = real_snapshot();
        let snap = serde_json::to_string(&snapshot).expect("json");
        assert!(snap.contains('.'), "the snapshot carries floats: {snap}");
        let record = json!({"trial": 2, "cost": 0.1 + 0.2, "seconds": 1e-7});
        let config = json!({"n": 12, "alpha": 4e-4});
        let grant = |snapshot: Option<Value>| {
            Msg::Grant(LeaseGrant {
                lease: "1ea5e1ea5e1ea5e1".into(),
                job: "ab12cd34ef56ab78".into(),
                trial: 2,
                seed: 0xDEAD_BEEF,
                attempt: 3,
                config: config.clone(),
                deadline_ms: 120_000,
                trial_deadline_ms: snapshot.as_ref().map(|_| 500),
                ckpt_every: 5,
                trace_id: "ab12cd34ef56ab78".into(),
                snapshot,
            })
        };
        let grant_head = r#"{"type":"lease_grant","lease":"1ea5e1ea5e1ea5e1","job":"ab12cd34ef56ab78","trial":2,"seed":3735928559,"attempt":3,"config":{"n":12,"alpha":0.0004},"deadline_ms":120000"#;
        let cases = vec![
            (Msg::Hello { worker: "w\"1".into() }, r#"{"type":"hello","worker":"w\"1"}"#.to_string()),
            (Msg::HelloOk, r#"{"type":"hello_ok"}"#.into()),
            (Msg::Heartbeat { worker: "w1".into() }, r#"{"type":"heartbeat","worker":"w1"}"#.into()),
            (Msg::HeartbeatOk { drain: true }, r#"{"type":"heartbeat_ok","drain":true}"#.into()),
            (
                Msg::LeaseRequest { worker: "w1".into() },
                r#"{"type":"lease_request","worker":"w1"}"#.into(),
            ),
            (
                grant(Some(snapshot.clone())),
                format!(
                    r#"{grant_head},"trial_deadline_ms":500,"ckpt_every":5,"trace_id":"ab12cd34ef56ab78","snapshot":{snap}}}"#
                ),
            ),
            (
                grant(None),
                format!(
                    r#"{grant_head},"trial_deadline_ms":null,"ckpt_every":5,"trace_id":"ab12cd34ef56ab78","snapshot":null}}"#
                ),
            ),
            (Msg::NoWork { backoff_ms: 200 }, r#"{"type":"no_work","backoff_ms":200}"#.into()),
            (Msg::Drain, r#"{"type":"drain"}"#.into()),
            (
                Msg::TrialCheckpoint {
                    worker: "w1".into(),
                    lease: "1ea5e1ea5e1ea5e1".into(),
                    snapshot: snapshot.clone(),
                    cache_total: 12,
                },
                format!(
                    r#"{{"type":"trial_checkpoint","worker":"w1","lease":"1ea5e1ea5e1ea5e1","snapshot":{snap},"cache_total":12}}"#
                ),
            ),
            (Msg::CheckpointOk, r#"{"type":"checkpoint_ok"}"#.into()),
            (
                Msg::CheckpointRejected { reason: "stale".into() },
                r#"{"type":"checkpoint_rejected","reason":"stale"}"#.into(),
            ),
            (Msg::LeaseRevoked, r#"{"type":"lease_revoked"}"#.into()),
            (
                Msg::TrialResult {
                    worker: "w1".into(),
                    lease: "1ea5e1ea5e1ea5e1".into(),
                    job: "ab12cd34ef56ab78".into(),
                    trial: 2,
                    seed: 99,
                    record: record.clone(),
                },
                r#"{"type":"trial_result","worker":"w1","lease":"1ea5e1ea5e1ea5e1","job":"ab12cd34ef56ab78","trial":2,"seed":99,"record":{"trial":2,"cost":0.30000000000000004,"seconds":0.0000001}}"#.into(),
            ),
            (Msg::ResultOk { duplicate: false }, r#"{"type":"result_ok","duplicate":false}"#.into()),
            (
                Msg::TrialError {
                    worker: "w1".into(),
                    lease: "1ea5e1ea5e1ea5e1".into(),
                    error: "line\nbreak".into(),
                },
                r#"{"type":"trial_error","worker":"w1","lease":"1ea5e1ea5e1ea5e1","error":"line\nbreak"}"#.into(),
            ),
            (Msg::Bye { worker: "w1".into() }, r#"{"type":"bye","worker":"w1"}"#.into()),
            (Msg::ByeOk, r#"{"type":"bye_ok"}"#.into()),
            (Msg::Error { message: "nope".into() }, r#"{"type":"error","message":"nope"}"#.into()),
        ];
        for (msg, expected) in cases {
            let text = frame_text(&msg);
            assert_eq!(text, expected);
            assert_eq!(text, serde_json::to_string(&msg.to_value()).expect("json"));
            round_trip(msg);
        }
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
        assert_eq!(Msg::from_value(v).expect("parse"), Msg::Grant(grant));
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
