//! Typed errors for the serving runtime.

use std::fmt;

use deepcam_core::CoreError;

use crate::protocol::ErrorKind;

/// Error returned by the registry, sessions, server and client.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The requested model id is not in the registry.
    ModelNotFound {
        /// The id the caller asked for.
        model: String,
    },
    /// The model's artifact exists but could not be read, decoded or
    /// validated.
    BadArtifact {
        /// The id whose artifact failed to load.
        model: String,
        /// The underlying artifact error.
        detail: String,
    },
    /// The session's bounded request queue is full — backpressure. The
    /// caller should retry later or shed load.
    Overloaded {
        /// Requests queued when this one was rejected.
        queued: usize,
        /// The queue's configured capacity.
        capacity: usize,
    },
    /// The request itself is malformed (bad shape, empty image, wrong
    /// element count for the model, a NaN or infinite element).
    InvalidRequest(String),
    /// Inference failed inside the engine.
    Engine(CoreError),
    /// The peer violated the wire protocol (bad frame length, unknown
    /// tag, trailing bytes, over-limit sizes).
    Protocol(String),
    /// A socket or file operation failed.
    Io(String),
    /// The session or server is shutting down and no longer accepts
    /// work.
    ShuttingDown,
    /// The server reported an error over the wire (client side only):
    /// the transported kind plus the server's message.
    Remote {
        /// Coarse error class the server put on the wire.
        kind: ErrorKind,
        /// The server's human-readable message.
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::ModelNotFound { model } => {
                write!(f, "model {model:?} is not in the registry")
            }
            ServeError::BadArtifact { model, detail } => {
                write!(f, "artifact for model {model:?} failed to load: {detail}")
            }
            ServeError::Overloaded { queued, capacity } => write!(
                f,
                "session overloaded: {queued} requests queued (capacity {capacity})"
            ),
            ServeError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            ServeError::Engine(e) => write!(f, "inference failed: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ServeError::Io(msg) => write!(f, "i/o error: {msg}"),
            ServeError::ShuttingDown => write!(f, "serving runtime is shutting down"),
            ServeError::Remote { kind, message } => {
                write!(f, "server error ({kind:?}): {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, ServeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_essentials() {
        let e = ServeError::ModelNotFound {
            model: "lenet5".into(),
        };
        assert!(e.to_string().contains("lenet5"));
        let e = ServeError::Overloaded {
            queued: 7,
            capacity: 8,
        };
        assert!(e.to_string().contains('7') && e.to_string().contains('8'));
        let e = ServeError::BadArtifact {
            model: "vgg".into(),
            detail: "bad magic".into(),
        };
        assert!(e.to_string().contains("bad magic"));
    }

    #[test]
    fn engine_errors_keep_their_source() {
        use std::error::Error;
        let e = ServeError::Engine(CoreError::InvalidInput("x".into()));
        assert!(e.source().is_some());
        assert!(ServeError::ShuttingDown.source().is_none());
    }
}
