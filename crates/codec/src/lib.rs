//! Entropy-coding substrates for the DBGC LiDAR point-cloud compressor.
//!
//! The paper composes its pipeline out of classic lightweight database
//! compression techniques (§2.2): delta coding, data scaling, run-length
//! encoding, arithmetic coding, and Deflate. This crate implements all of
//! them from scratch:
//!
//! * [`bitio`] — MSB-first bit reader/writer;
//! * [`crc32`] — the table-driven IEEE CRC-32 that checks wire frames and
//!   index trailers;
//! * [`varint`] — LEB128 varints and zigzag mapping for signed integers;
//! * [`delta`] — delta encoding (paper Definition 2.3);
//! * [`rle`] — run-length encoding;
//! * [`entropy`] — Shannon entropy of a symbol sequence (paper §2.1);
//! * [`range`] — a carryless range coder (drop-in replacement for the
//!   arithmetic coder \[58\] the paper uses);
//! * [`laned`] — the same coder interleaved round-robin over 1, 2 or 4
//!   lanes, which breaks the decoder's serial interval-state dependency
//!   chain; every entropy profile codes through it, and at one lane its
//!   bytes are exactly [`range`]'s;
//! * [`simd`] — `core::arch` AVX2 helpers, picked at run time, with
//!   mandatory scalar fallbacks, used by the batch bitpack/delta kernels;
//! * [`model`] — adaptive frequency models (order-0 and contextual) backed by
//!   two-level count tables (per-symbol counts plus 16-symbol block sums);
//! * [`huffman`] — canonical Huffman coding;
//! * [`lz77`] — LZ77 with hash-chain match search;
//! * [`deflate`] — LZ77 + two canonical Huffman tables, a deflate-like
//!   composite (both ends of the wire are ours, so RFC 1951 framing is not
//!   reproduced);
//! * [`bitpack`] — fixed-width bit-packing and frame-of-reference encoding,
//!   the column-store codecs of the paper's §2.2 survey, used as comparison
//!   points in the codec-ablation experiment;
//! * [`intseq`] — integer-sequence codecs combining the above, the building
//!   blocks consumed by the DBGC coordinate compressor.

#![warn(missing_docs)]

pub mod bitio;
pub mod bitpack;
pub mod crc32;
pub mod deflate;
pub mod delta;
pub mod entropy;
pub mod error;
pub mod huffman;
pub mod intseq;
pub mod laned;
pub mod lz77;
pub mod model;
pub mod range;
pub mod rle;
pub mod simd;
pub mod varint;

pub use bitio::{BitReader, BitWriter};
pub use bitpack::{bitpack_decode, bitpack_encode, for_decode, for_encode};
pub use deflate::{deflate_compress, deflate_decompress};
pub use delta::{delta_decode, delta_decode_in_place, delta_encode, delta_encode_in_place};
pub use entropy::shannon_entropy;
pub use error::CodecError;
pub use huffman::{HuffmanDecoder, HuffmanEncoder};
pub use laned::{LanedDecoder, LanedEncoder};
pub use model::{AdaptiveModel, ContextModel};
pub use range::{RangeDecoder, RangeEncoder, RangeSink, RangeSource};
pub use rle::{rle_decode, rle_decode_limited, rle_encode};
pub use varint::{read_uvarint, write_uvarint, zigzag_decode, zigzag_encode, ByteReader};

/// The two-lane coder of the version-2 dense profile.
#[cfg(test)]
mod dual {
    mod tests {
        use crate::laned::tests::{
            assert_close_to_single_lane, assert_empty_stream, assert_roundtrip,
            assert_truncation_rejected,
        };

        #[test]
        fn dual_roundtrip_adaptive_bytes() {
            assert_roundtrip(2, (0..9).chain([30_000]));
        }

        #[test]
        fn dual_empty_stream() {
            assert_empty_stream(2);
        }

        #[test]
        fn truncated_frame_is_rejected() {
            assert_truncation_rejected(2);
        }

        #[test]
        fn compression_matches_single_lane_closely() {
            assert_close_to_single_lane(2);
        }
    }
}

/// The four-lane coder of the version-3 (wide) profile.
#[cfg(test)]
mod wide {
    mod tests {
        use crate::laned::tests::{
            assert_close_to_single_lane, assert_empty_stream, assert_roundtrip,
            assert_truncation_rejected,
        };

        #[test]
        fn wide_roundtrip_adaptive_bytes() {
            assert_roundtrip(4, [30_000]);
        }

        #[test]
        fn wide_roundtrip_lengths_not_multiple_of_lanes() {
            assert_roundtrip(4, 0..9);
        }

        #[test]
        fn wide_empty_stream() {
            assert_empty_stream(4);
        }

        #[test]
        fn truncated_frame_is_rejected() {
            assert_truncation_rejected(4);
        }

        #[test]
        fn compression_matches_single_lane_closely() {
            assert_close_to_single_lane(4);
        }
    }
}
