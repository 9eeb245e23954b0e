//! The `wire` layer's per-frame cost, measured by replaying the public
//! codec, frame and MAC functions over a sample of the protocol
//! messages a run actually delivered.

use std::time::Instant;

use ssbyz::harness::pipeline::PipelineMsg;
use ssbyz::wire::frame::{verify_frame, write_frame, LEN_PREFIX};
use ssbyz::wire::{decode_slot_msg, encode_slot_msg, MacKey, WireConfig};
use ssbyz::NodeId;

/// Least wall time one replay measures, so that a small sample is
/// still timed over many passes.
const MIN_REPLAY: std::time::Duration = std::time::Duration::from_millis(30);

/// Per-frame cost of the sample.
pub(crate) struct CodecCost {
    /// `encode_slot_msg` + `decode_slot_msg`, per frame.
    pub(crate) codec_ns_per_frame: f64,
    /// `write_frame` + `verify_frame` (MAC over header and payload,
    /// both directions), per frame.
    pub(crate) mac_ns_per_frame: f64,
}

/// Replays `sample` (sender, message) over links of an `n`-node mesh
/// keyed from `seed`. Every message must survive the round trip.
///
/// # Errors
///
/// A description of the first message that did not decode to itself
/// or whose frame did not verify.
pub(crate) fn replay(
    sample: &[(NodeId, PipelineMsg)],
    n: usize,
    seed: u64,
) -> Result<CodecCost, String> {
    if sample.is_empty() {
        return Err("no protocol messages sampled for the codec replay".into());
    }
    let master = WireConfig::from_seed(seed).master_key;
    let keys: Vec<MacKey> = sample
        .iter()
        .map(|(from, _)| {
            let to = NodeId::new(((from.index() + 1) % n.max(1)) as u32);
            MacKey::derive_link(&master, *from, to)
        })
        .collect();
    let mut payloads: Vec<Vec<u8>> = vec![Vec::new(); sample.len()];
    let mut frames: Vec<Vec<u8>> = vec![Vec::new(); sample.len()];
    let (mut codec_ns, mut mac_ns, mut count) = (0u128, 0u128, 0u64);
    let start = Instant::now();
    let mut first = true;
    while first || start.elapsed() < MIN_REPLAY {
        let t0 = Instant::now();
        for ((_, msg), buf) in sample.iter().zip(&mut payloads) {
            buf.clear();
            encode_slot_msg(msg, buf);
        }
        for ((_, msg), buf) in sample.iter().zip(&payloads) {
            let decoded = decode_slot_msg::<u64>(std::hint::black_box(buf));
            if first && decoded.as_ref() != Ok(msg) {
                return Err(format!("codec round trip changed {msg:?}: {decoded:?}"));
            }
        }
        let t1 = Instant::now();
        for (((from, _), payload), (key, frame)) in sample
            .iter()
            .zip(&payloads)
            .zip(keys.iter().zip(&mut frames))
        {
            frame.clear();
            write_frame(frame, key, *from, payload);
        }
        for (((from, _), payload), (key, frame)) in
            sample.iter().zip(&payloads).zip(keys.iter().zip(&frames))
        {
            let body = &frame[LEN_PREFIX..];
            match verify_frame(std::hint::black_box(body), *from, key) {
                Ok(p) if p == &payload[..] => {}
                other => return Err(format!("frame from {from:?} failed to verify: {other:?}")),
            }
        }
        let t2 = Instant::now();
        codec_ns += (t1 - t0).as_nanos();
        mac_ns += (t2 - t1).as_nanos();
        count += sample.len() as u64;
        first = false;
    }
    Ok(CodecCost {
        codec_ns_per_frame: codec_ns as f64 / count as f64,
        mac_ns_per_frame: mac_ns as f64 / count as f64,
    })
}
