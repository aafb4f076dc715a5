//! Error type for the DBGC pipeline.

use std::fmt;

use dbgc_codec::CodecError;

/// Compression or decompression failure.
#[derive(Debug, Clone, PartialEq)]
pub enum DbgcError {
    /// The configuration violates an invariant.
    InvalidConfig(String),
    /// The bitstream is malformed.
    Codec(CodecError),
    /// The stream does not start with the DBGC magic/version.
    BadHeader(&'static str),
    /// A non-finite (NaN/inf) coordinate was found in the input cloud.
    NonFinitePoint {
        /// Index of the offending point in the input cloud.
        index: usize,
    },
    /// An input point lies farther from the origin than
    /// [`MAX_RANGE`](crate::layout::MAX_RANGE), beyond which the decoder
    /// refuses a stream.
    PointOutOfRange {
        /// Index of the offending point in the input cloud.
        index: usize,
    },
    /// A tree coder would need more levels than it can write to keep leaves
    /// at side `2·q_xyz`; clamping the depth would break the error bound.
    TreeTooDeep {
        /// The section the tree codes: `"dense"` or `"outlier"`.
        section: &'static str,
        /// Levels the cloud needs at leaf side `2·q_xyz`.
        depth: u32,
        /// Most levels the section's codec writes.
        max_depth: u32,
    },
}

impl fmt::Display for DbgcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbgcError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            DbgcError::Codec(e) => write!(f, "codec error: {e}"),
            DbgcError::BadHeader(what) => write!(f, "bad stream header: {what}"),
            DbgcError::NonFinitePoint { index } => {
                write!(f, "point {index} has a non-finite coordinate")
            }
            DbgcError::PointOutOfRange { index } => write!(
                f,
                "point {index} is farther than {:e} m from the origin",
                crate::layout::MAX_RANGE
            ),
            DbgcError::TreeTooDeep { section, depth, max_depth } => write!(
                f,
                "the {section} tree needs {depth} levels at the error bound, \
                 more than the {max_depth} its codec writes"
            ),
        }
    }
}

impl std::error::Error for DbgcError {}

impl From<CodecError> for DbgcError {
    fn from(e: CodecError) -> Self {
        DbgcError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = DbgcError::InvalidConfig("groups must be >= 1".into());
        assert!(e.to_string().contains("groups"));
        let e: DbgcError = CodecError::UnexpectedEof.into();
        assert!(e.to_string().contains("unexpected end"));
        assert!(DbgcError::NonFinitePoint { index: 7 }.to_string().contains('7'));
        assert!(DbgcError::PointOutOfRange { index: 9 }.to_string().contains("point 9"));
        let e = DbgcError::TreeTooDeep { section: "dense", depth: 22, max_depth: 21 };
        assert!(e.to_string().contains("dense tree needs 22 levels"));
    }
}
