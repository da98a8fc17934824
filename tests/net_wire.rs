//! Wire-protocol integration tests for `fp-net`: a propcheck round-trip
//! property over randomly generated frames, and adversarial byte-level
//! decoding — every malformed input must map to a typed [`WireError`],
//! never a panic, a hang, or a silently wrong frame.

use fork_path_oram::net::wire::{read_frame, write_frame, MAGIC, MAX_FRAME, VERSION};
use fork_path_oram::net::{Frame, WireError, WireOp, WireRequest, WireResponse, WireStatus};
use fork_path_oram::propcheck::{run_cases, Gen};

/// A random frame of any protocol kind, with field values spanning the
/// full encodable range (including empty and near-maximum payloads).
fn arbitrary_frame(g: &mut Gen) -> Frame {
    let payload = |g: &mut Gen| {
        let n = if g.bool() {
            g.range_usize(0, 64)
        } else {
            g.range_usize(0, 4096)
        };
        let b = g.below(256) as u8;
        vec![b; n]
    };
    match g.below(7) {
        0 => Frame::Hello {
            version: g.below(u64::from(u16::MAX)) as u16,
        },
        1 => Frame::HelloAck {
            version: g.below(u64::from(u16::MAX)) as u16,
            data_blocks: g.below(u64::MAX),
            block_bytes: g.range_u32(1, 1 << 16),
            shards: g.range_u32(1, 64),
        },
        2 => Frame::Request(WireRequest {
            tag: g.below(u64::MAX),
            op: if g.bool() {
                WireOp::Read
            } else {
                WireOp::Write
            },
            addr: g.below(u64::MAX),
            deadline_rel_ns: g.below(u64::MAX),
            payload: payload(g),
        }),
        3 => Frame::Response(WireResponse {
            tag: g.below(u64::MAX),
            status: WireStatus::ALL[g.range_usize(0, WireStatus::ALL.len() - 1)],
            latency_ps: g.below(u64::MAX),
            data: payload(g),
        }),
        4 => Frame::StatsReq,
        5 => Frame::StatsResp {
            // Arbitrary ASCII (the field is a string, not validated JSON).
            json: (0..g.range_usize(0, 512))
                .map(|_| (g.range(0x20, 0x7E) as u8) as char)
                .collect(),
        },
        _ => Frame::Shutdown,
    }
}

// ---------- round-trip properties -----------------------------------

/// encode -> read_frame is the identity for every frame kind and field
/// range, and the reported byte counts agree on both sides.
#[test]
fn arbitrary_frames_round_trip() {
    run_cases("net-wire-round-trip", 256, |g: &mut Gen| {
        let frame = arbitrary_frame(g);
        let mut buf = Vec::new();
        let n = frame.encode(&mut buf);
        assert_eq!(n, buf.len(), "encode must report exactly what it wrote");
        let (got, consumed) = read_frame(&mut buf.as_slice())
            .expect("well-formed frame decodes")
            .expect("non-empty stream");
        assert_eq!(consumed, n, "decode must consume exactly one frame");
        assert_eq!(got, frame, "round trip must be the identity");
    });
}

/// Walks the [`Frame`] variants: the sample after `prev` (`None` starts
/// the walk). The match has no wildcard, so a new variant does not compile
/// until it joins the chain.
fn sample_after(prev: Option<&Frame>) -> Option<Frame> {
    Some(match prev {
        None => Frame::Hello { version: VERSION },
        Some(Frame::Hello { .. }) => Frame::HelloAck {
            version: VERSION,
            data_blocks: 1 << 16,
            block_bytes: 64,
            shards: 4,
        },
        Some(Frame::HelloAck { .. }) => Frame::Request(WireRequest {
            tag: 7,
            op: WireOp::Write,
            addr: 42,
            deadline_rel_ns: 1_000,
            payload: vec![0xAB; 64],
        }),
        Some(Frame::Request(_)) => Frame::Response(WireResponse {
            tag: 7,
            status: WireStatus::Late,
            latency_ps: 123_456,
            data: vec![1, 2, 3],
        }),
        Some(Frame::Response(_)) => Frame::StatsReq,
        Some(Frame::StatsReq) => Frame::StatsResp {
            json: "{\"ok\":true}".into(),
        },
        Some(Frame::StatsResp { .. }) => Frame::Shutdown,
        Some(Frame::Shutdown) => return None,
    })
}

/// One sample of every variant round-trips under its own kind code, no two
/// variants share a code, and `decode` answers every other code with
/// `UnknownKind` — the kind table, `kind()` and `decode()` agree.
#[test]
fn every_variant_round_trips_and_no_other_kind_decodes() {
    let mut defined = [false; 256];
    for frame in std::iter::successors(sample_after(None), |f| sample_after(Some(f))) {
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        assert_eq!(buf[4], frame.kind(), "encode writes kind()");
        assert_eq!(
            Frame::decode(frame.kind(), &buf[5..]).as_ref(),
            Ok(&frame),
            "{} must round-trip",
            frame.kind_name()
        );
        assert!(
            !std::mem::replace(&mut defined[usize::from(frame.kind())], true),
            "kind code {} belongs to two variants",
            frame.kind()
        );
    }
    for code in 0..=u8::MAX {
        if !defined[usize::from(code)] {
            assert_eq!(Frame::decode(code, &[]), Err(WireError::UnknownKind(code)));
        }
    }
}

/// A stream of several frames decodes back frame-by-frame, in order, and
/// ends with a clean EOF (`Ok(None)`), never an error.
#[test]
fn frame_streams_round_trip_in_order() {
    run_cases("net-wire-stream", 64, |g: &mut Gen| {
        let frames = g.vec(1, 8, arbitrary_frame);
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).expect("vec write cannot fail");
        }
        let mut stream = buf.as_slice();
        for want in &frames {
            let (got, _) = read_frame(&mut stream)
                .expect("stream frame decodes")
                .expect("frame present");
            assert_eq!(&got, want);
        }
        assert_eq!(
            read_frame(&mut stream).unwrap(),
            None,
            "clean EOF after the last frame"
        );
    });
}

// ---------- malformed input -----------------------------------------

/// A frame with the body (and the embedded length prefix) of `frame`, but
/// with `mutate` applied to the raw bytes before decoding.
fn corrupt(
    frame: &Frame,
    mutate: impl FnOnce(&mut Vec<u8>),
) -> Result<Option<(Frame, usize)>, WireError> {
    let mut buf = Vec::new();
    frame.encode(&mut buf);
    mutate(&mut buf);
    read_frame(&mut buf.as_slice())
}

#[test]
fn zero_length_prefix_is_oversize() {
    let err = corrupt(&Frame::StatsReq, |b| {
        b[0..4].copy_from_slice(&0u32.to_le_bytes())
    })
    .expect_err("zero length cannot hold a kind byte");
    assert!(matches!(err, WireError::Oversize { len: 0, .. }), "{err}");
}

#[test]
fn oversize_length_prefix_is_rejected_before_allocating() {
    let len = (MAX_FRAME as u32) + 1;
    let err = corrupt(&Frame::StatsReq, |b| {
        b[0..4].copy_from_slice(&len.to_le_bytes())
    })
    .expect_err("length above MAX_FRAME");
    assert!(
        matches!(err, WireError::Oversize { len: l, max } if l == u64::from(len) && max == MAX_FRAME),
        "{err}"
    );
}

#[test]
fn unknown_frame_kind_is_typed() {
    let err = corrupt(&Frame::StatsReq, |b| b[4] = 0xEE).expect_err("undefined kind byte");
    assert_eq!(err, WireError::UnknownKind(0xEE));
}

#[test]
fn hello_with_wrong_magic_is_rejected() {
    let err = corrupt(&Frame::Hello { version: VERSION }, |b| {
        // The magic is the first body field after [len][kind].
        b[5..9].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
    })
    .expect_err("wrong magic");
    assert_eq!(err, WireError::BadMagic { got: 0xDEAD_BEEF });
    // The right magic still decodes, so the mutation above is the only
    // thing the test rejects.
    let mut ok = Vec::new();
    Frame::Hello { version: VERSION }.encode(&mut ok);
    assert_eq!(ok[5..9], MAGIC.to_le_bytes());
}

#[test]
fn request_with_unknown_op_code_is_typed() {
    let req = Frame::Request(WireRequest {
        tag: 1,
        op: WireOp::Read,
        addr: 2,
        deadline_rel_ns: 0,
        payload: Vec::new(),
    });
    // Body layout: tag u64, op u8 — the op byte sits at offset 4+1+8.
    let err = corrupt(&req, |b| b[13] = 9).expect_err("undefined op code");
    assert_eq!(err, WireError::UnknownOp(9));
}

#[test]
fn response_with_unknown_status_code_is_typed() {
    let resp = Frame::Response(WireResponse {
        tag: 1,
        status: WireStatus::Ok,
        latency_ps: 0,
        data: Vec::new(),
    });
    // Body layout: tag u64, status u8 — offset 4+1+8.
    let err = corrupt(&resp, |b| b[13] = 0xFF).expect_err("undefined status code");
    assert_eq!(err, WireError::UnknownStatus(0xFF));
}

#[test]
fn stats_resp_with_invalid_utf8_is_typed() {
    let resp = Frame::StatsResp { json: "ok".into() };
    let err = corrupt(&resp, |b| {
        let last = b.len() - 1;
        b[last] = 0xFF; // lone 0xFF is never valid UTF-8
    })
    .expect_err("invalid UTF-8 in a string field");
    assert_eq!(err, WireError::BadUtf8);
}

/// Truncating a well-formed frame at ANY byte boundary inside the body
/// yields a typed error (mid-frame EOF or a field-level `Truncated`),
/// never a panic or a bogus frame. Cutting inside the 4-byte length
/// prefix itself is also mid-frame EOF.
#[test]
fn every_truncation_point_errors_cleanly() {
    run_cases("net-wire-truncation", 64, |g: &mut Gen| {
        let frame = arbitrary_frame(g);
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        let cut = g.range_usize(1, buf.len() - 1);
        match read_frame(&mut &buf[..cut]) {
            Err(_) => {}
            Ok(got) => panic!("truncation at {cut}/{} decoded {got:?}", buf.len()),
        }
    });
}

/// Appending garbage INSIDE the declared frame length (shrinking a
/// variable field and leaving its bytes behind) is a `Trailing` error:
/// decoders must account for every body byte.
#[test]
fn trailing_body_bytes_are_rejected() {
    let mut buf = Vec::new();
    Frame::StatsReq.encode(&mut buf);
    // Grow the declared length by 2 and supply 2 extra body bytes.
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) + 2;
    buf[0..4].copy_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&[0xAA, 0xBB]);
    let err = read_frame(&mut buf.as_slice()).expect_err("unconsumed body bytes");
    assert!(matches!(err, WireError::Trailing { extra: 2, .. }), "{err}");
}

/// Bytes after a complete frame belong to the NEXT frame: decoding stops
/// at the declared length and a second read picks up from there.
#[test]
fn decoding_stops_at_the_declared_length() {
    let mut buf = Vec::new();
    Frame::Shutdown.encode(&mut buf);
    Frame::StatsReq.encode(&mut buf);
    let mut stream = buf.as_slice();
    let (first, n1) = read_frame(&mut stream).unwrap().unwrap();
    assert_eq!(first, Frame::Shutdown);
    let (second, _) = read_frame(&mut stream).unwrap().unwrap();
    assert_eq!(second, Frame::StatsReq);
    assert_eq!(n1, 5, "an empty-body frame is [len=1][kind]");
}
