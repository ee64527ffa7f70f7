//! The frozen `QPPWIRE-v2` fuzz corpus, replayed in tier-1.
//!
//! `tests/data/codec_corpus.bin` holds the first single-byte corruptions
//! of valid request frames that `crates/serve/tests/codec_props.rs` draws
//! at its seed, each behind its `u32` little-endian length (that suite's
//! ignored `freeze_corpus` test wrote the file and says how to rewrite
//! it). `cargo test -q` runs the root package only, so without this replay
//! the decoder's never-panics guarantee is checked nowhere in tier-1.

use serve::{Frame, DEFAULT_MAX_FRAME};

/// The frames of the corpus, in file order.
fn frames(mut corpus: &[u8]) -> Vec<&[u8]> {
    let mut frames = Vec::new();
    while !corpus.is_empty() {
        let (len, rest) = corpus.split_at(4);
        let len = u32::from_le_bytes(len.try_into().unwrap()) as usize;
        let (frame, rest) = rest.split_at(len);
        frames.push(frame);
        corpus = rest;
    }
    frames
}

/// Every frame decodes to `Ok` or a typed `DecodeError` — a panic fails
/// the test — and every frame that decodes re-encodes to the bytes it came
/// from: the codec accepts canonical encodings only.
#[test]
fn every_frozen_frame_decodes_or_is_refused_and_round_trips() {
    let corpus = include_bytes!("../data/codec_corpus.bin");
    let frames = frames(corpus);
    assert!(frames.len() >= 16, "corpus holds {} frames", frames.len());
    let mut decoded = 0;
    for (i, bytes) in frames.iter().enumerate() {
        if let Ok(frame) = Frame::decode(bytes, DEFAULT_MAX_FRAME) {
            assert!(
                frame.encode() == *bytes,
                "frame {i} decodes but re-encodes differently"
            );
            decoded += 1;
        }
    }
    // A corruption that lands in a float or an id still decodes; one in a
    // tag, a length or the magic does not. The corpus must exercise both.
    assert!(
        decoded > 0 && decoded < frames.len(),
        "{decoded} of {} decode",
        frames.len()
    );
}
