//! Typed errors for the synthesis layer.
//!
//! [`ColdError`] is the boundary error of the whole workspace: everything
//! a caller of `cold`'s public API can plausibly trigger — an invalid
//! configuration, a misbehaving cost model surfacing as a GA error, a
//! corrupt checkpoint, an I/O failure while persisting one — arrives as
//! one of these variants instead of a panic, so ensemble drivers and the
//! `cold-gen` CLI can record the failure and continue or retry.

use cold_ga::GaError;
use std::fmt;

/// An error surfaced by the synthesis layer instead of a panic.
#[derive(Debug)]
pub enum ColdError {
    /// The [`ColdConfig`](crate::ColdConfig) is internally inconsistent
    /// (context model, cost parameters, or GA settings).
    Config(String),
    /// The GA engine reported a typed failure.
    Ga(GaError),
    /// A trial panicked (contained by [`run_attempt`](crate::run_attempt));
    /// the payload is the stringified panic message.
    TrialPanic(String),
    /// A checkpoint document was rejected (corrupt, wrong kind/version, or
    /// belonging to a different campaign).
    Checkpoint(String),
    /// Reading or writing a checkpoint file failed.
    Io(std::io::Error),
    /// A trial overran its wall-clock deadline and was abandoned by the
    /// watchdog (see [`run_attempt`](crate::run_attempt)); the trial
    /// counts as lost after its retry, exactly like a panic.
    DeadlineExceeded {
        /// The configured deadline, in seconds.
        seconds: f64,
    },
    /// A controlled campaign was asked to stop between trials (graceful
    /// drain). Completed trials are already checkpointed, so a resume
    /// picks up exactly where the cancel landed.
    Canceled {
        /// Trials completed (and checkpointed) before the cancel.
        completed: usize,
    },
}

impl fmt::Display for ColdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColdError::Config(why) => write!(f, "invalid configuration: {why}"),
            ColdError::Ga(e) => write!(f, "GA failure: {e}"),
            ColdError::TrialPanic(msg) => write!(f, "trial panicked: {msg}"),
            ColdError::Checkpoint(why) => write!(f, "checkpoint rejected: {why}"),
            ColdError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            ColdError::DeadlineExceeded { seconds } => {
                write!(f, "trial exceeded its {seconds}s wall-clock deadline")
            }
            ColdError::Canceled { completed } => {
                write!(f, "campaign canceled after {completed} completed trial(s)")
            }
        }
    }
}

impl std::error::Error for ColdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ColdError::Ga(e) => Some(e),
            ColdError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GaError> for ColdError {
    fn from(e: GaError) -> Self {
        ColdError::Ga(e)
    }
}

impl From<std::io::Error> for ColdError {
    fn from(e: std::io::Error) -> Self {
        ColdError::Io(e)
    }
}

/// Renders a caught panic payload as a human-readable message — panics
/// raised via `panic!("…")` carry `&str` or `String`; anything else is
/// reported opaquely.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<(ColdError, &str)> = vec![
            (ColdError::Config("n too small".into()), "invalid configuration"),
            (ColdError::Ga(GaError::InvalidSettings("pop 0".into())), "GA failure"),
            (ColdError::TrialPanic("boom".into()), "trial panicked"),
            (ColdError::Checkpoint("bad kind".into()), "checkpoint rejected"),
            (
                ColdError::Io(std::io::Error::new(std::io::ErrorKind::NotFound, "gone")),
                "checkpoint I/O failed",
            ),
            (ColdError::DeadlineExceeded { seconds: 30.0 }, "wall-clock deadline"),
            (ColdError::Canceled { completed: 2 }, "canceled after 2"),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn panic_payloads_are_stringified() {
        let caught = std::panic::catch_unwind(|| panic!("exact message {}", 42)).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "exact message 42");
        let caught = std::panic::catch_unwind(|| panic!("static str")).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "static str");
    }
}
