//! Property tests for the wire codec and protocol: round-trip fidelity and
//! hostile-input safety (the SSP is untrusted; the client parses whatever
//! comes back).

use sharoes_net::traceframe::TraceEventWire;
use sharoes_net::{
    serve_frame, Cursor, Envelope, KeySpace, NetError, ObjectKey, Request, RequestHandler,
    Response, WireRead, WireWrite, CONNECTION_ERROR_ID, ENVELOPE_LEN, TRACED_ENVELOPE_LEN,
};
use sharoes_obs::TraceContext;
use sharoes_testkit::prelude::*;

fn keyspaces() -> Gen<KeySpace> {
    gen::one_of(vec![
        Gen::constant(KeySpace::Metadata),
        Gen::constant(KeySpace::Data),
        Gen::constant(KeySpace::Superblock),
        Gen::constant(KeySpace::GroupKey),
    ])
}

fn keys() -> Gen<ObjectKey> {
    let space = keyspaces();
    Gen::from_fn(move |t| {
        Ok(ObjectKey {
            space: space.sample(t)?,
            inode: t.u64(),
            view: gen::byte_arrays::<16>().sample(t)?,
            block: t.u32(),
        })
    })
}

fn requests() -> Gen<Request> {
    let key = keys();
    let small_blob = gen::vecs(gen::u8s(), 0..64);
    gen::one_of(vec![
        Gen::constant(Request::Ping),
        Gen::constant(Request::Metrics),
        {
            let key = key.clone();
            let value = gen::vecs(gen::u8s(), 0..256);
            Gen::from_fn(move |t| Ok(Request::Put { key: key.sample(t)?, value: value.sample(t)? }))
        },
        key.clone().map(|key| Request::Get { key }),
        key.clone().map(|key| Request::Delete { key }),
        gen::vecs(key.clone(), 0..8).map(|keys| Request::GetMany { keys }),
        {
            let key = key.clone();
            let blob = small_blob.clone();
            let item = Gen::from_fn(move |t| Ok((key.sample(t)?, blob.sample(t)?)));
            gen::vecs(item, 0..6).map(|items| Request::PutMany { items })
        },
        mutates(),
        {
            let after = gen::option_of(key.clone());
            Gen::from_fn(move |t| Ok(Request::Scan { after: after.sample(t)?, limit: t.u32() }))
        },
        Gen::from_fn(|t| Ok(Request::Trace { max: t.u32() })),
        Gen::constant(Request::Root),
        index_node_requests(),
        {
            let after = gen::option_of(key);
            Gen::from_fn(move |t| {
                Ok(Request::ScanVerified { after: after.sample(t)?, limit: t.u32() })
            })
        },
    ])
}

fn mutates() -> Gen<Request> {
    let (key, blob) = (keys(), gen::vecs(gen::u8s(), 0..64));
    let put = Gen::from_fn(move |t| Ok((key.sample(t)?, blob.sample(t)?)));
    let puts = gen::vecs(put, 0..6);
    let deletes = gen::vecs(keys(), 0..6);
    let view = Gen::from_fn(|t| Ok((t.u64(), gen::byte_arrays::<16>().sample(t)?)));
    let drop_views = gen::vecs(view, 0..4);
    Gen::from_fn(move |t| {
        Ok(Request::Mutate {
            puts: puts.sample(t)?,
            deletes: deletes.sample(t)?,
            drop_views: drop_views.sample(t)?,
        })
    })
}

fn index_node_requests() -> Gen<Request> {
    gen::vecs(gen::byte_arrays::<32>(), 0..8).map(|hashes| Request::IndexNode { hashes })
}

fn index_node_responses() -> Gen<Response> {
    gen::vecs(gen::option_of(gen::vecs(gen::u8s(), 0..128)), 0..6)
        .map(|nodes| Response::IndexNode { nodes })
}

fn trace_events() -> Gen<TraceEventWire> {
    let name = gen::ascii_strings(0..24);
    let fields = gen::ascii_strings(0..48);
    let node = gen::ascii_strings(0..12);
    Gen::from_fn(move |t| {
        Ok(TraceEventWire {
            seq: t.u64(),
            time_ns: t.u64(),
            depth: (t.u32() % 64) as u16,
            level: sharoes_obs::Level::from_u8((t.u32() % 5) as u8).unwrap(),
            kind: sharoes_obs::EventKind::from_u8((t.u32() % 3) as u8).unwrap(),
            trace_id: ((t.u64() as u128) << 64) | t.u64() as u128,
            span_id: t.u64(),
            parent_id: t.u64(),
            name: name.sample(t)?,
            fields: fields.sample(t)?,
            node: node.sample(t)?,
        })
    })
}

fn contexts() -> Gen<TraceContext> {
    Gen::from_fn(|t| {
        Ok(TraceContext {
            trace_id: ((t.u64() as u128) << 64) | t.u64() as u128,
            span_id: t.u64(),
            parent_id: t.u64(),
        })
    })
}

fn responses() -> Gen<Response> {
    gen::one_of(vec![
        Gen::constant(Response::Pong),
        Gen::constant(Response::Ok),
        gen::option_of(gen::vecs(gen::u8s(), 0..256)).map(Response::Object),
        gen::vecs(gen::option_of(gen::vecs(gen::u8s(), 0..64)), 0..6).map(Response::Objects),
        gen::ascii_strings(0..129).map(|text| Response::Metrics { text }),
        gen::ascii_strings(0..65).map(Response::Error),
        {
            let keys = gen::vecs(keys(), 0..8);
            Gen::from_fn(move |t| Ok(Response::Keys { keys: keys.sample(t)?, done: t.bool() }))
        },
        {
            let events = gen::vecs(trace_events(), 0..5);
            Gen::from_fn(move |t| {
                Ok(Response::Trace { events: events.sample(t)?, dropped: t.u64() })
            })
        },
        Gen::from_fn(|t| {
            Ok(Response::Root { root: gen::byte_arrays::<32>().sample(t)?, count: t.u64() })
        }),
        index_node_responses(),
        {
            let keys = gen::vecs(keys(), 0..8);
            let proof = gen::vecs(gen::u8s(), 0..128);
            Gen::from_fn(move |t| {
                Ok(Response::KeysProof {
                    keys: keys.sample(t)?,
                    done: t.bool(),
                    root: gen::byte_arrays::<32>().sample(t)?,
                    proof: proof.sample(t)?,
                })
            })
        },
    ])
}

prop! {
    #![cases(256)]

    fn requests_roundtrip(req in requests()) {
        let bytes = req.to_wire();
        prop_assert_eq!(Request::from_wire(&bytes).unwrap(), req);
    }

    fn responses_roundtrip(resp in responses()) {
        let bytes = resp.to_wire();
        prop_assert_eq!(Response::from_wire(&bytes).unwrap(), resp);
    }

    fn keys_roundtrip_and_order_is_total(a in keys(), b in keys()) {
        prop_assert_eq!(ObjectKey::from_wire(&a.to_wire()).unwrap(), a);
        // Hash/Eq consistency.
        if a == b {
            prop_assert_eq!(a.to_wire(), b.to_wire());
        }
    }

    fn arbitrary_bytes_never_panic_request(bytes in gen::vecs(gen::u8s(), 0..512)) {
        // Decoding hostile bytes must return Err, never panic or hang.
        let _ = Request::from_wire(&bytes);
        let _ = Response::from_wire(&bytes);
        let _ = ObjectKey::from_wire(&bytes);
        let mut cur = Cursor::new(&bytes);
        let _ = Vec::<Option<Vec<u8>>>::read(&mut cur);
    }

    fn truncations_of_valid_messages_fail_cleanly(req in requests(), cut in gen::indices()) {
        let bytes = req.to_wire();
        let cut = cut.index(bytes.len());
        if cut < bytes.len() {
            // A strict prefix must not decode to the same message (and must
            // not panic). It may decode to a *different* valid message only
            // if the codec is non-self-delimiting — ours is length-prefixed,
            // so it must simply fail.
            prop_assert!(Request::from_wire(&bytes[..cut]).is_err());
        }
    }

    fn every_strict_prefix_of_a_mutate_fails_typed(req in mutates()) {
        // A cut anywhere in the three lists, their length prefixes
        // included, is a codec error, never a panic.
        let bytes = req.to_wire();
        prop_assert_eq!(Request::from_wire(&bytes).unwrap(), req);
        for cut in 0..bytes.len() {
            let got = Request::from_wire(&bytes[..cut]);
            prop_assert!(matches!(got, Err(NetError::Codec(_))), "cut at {cut}: {got:?}");
        }
    }

    fn every_strict_prefix_of_an_index_node_batch_fails_typed(
        req in index_node_requests(),
        resp in index_node_responses(),
    ) {
        // A cut in a hash list, a slot's presence byte or a node's length
        // prefix is a codec error, never a panic.
        let (req_bytes, resp_bytes) = (req.to_wire(), resp.to_wire());
        prop_assert_eq!(Request::from_wire(&req_bytes).unwrap(), req);
        prop_assert_eq!(Response::from_wire(&resp_bytes).unwrap(), resp);
        for cut in 0..req_bytes.len() {
            let got = Request::from_wire(&req_bytes[..cut]);
            prop_assert!(matches!(got, Err(NetError::Codec(_))), "request cut at {cut}: {got:?}");
        }
        for cut in 0..resp_bytes.len() {
            let got = Response::from_wire(&resp_bytes[..cut]);
            prop_assert!(matches!(got, Err(NetError::Codec(_))), "reply cut at {cut}: {got:?}");
        }
    }

    fn retired_request_tags_fail_typed(body in gen::vecs(gen::u8s(), 0..64)) {
        // Tags 6, 7, 8 and 13 are reserved, whatever body follows them.
        for tag in [6u8, 7, 8, 13] {
            let got = Request::from_wire(&[&[tag][..], &body].concat());
            prop_assert!(matches!(got, Err(NetError::Codec(_))), "tag {tag}: {got:?}");
        }
    }

    fn retired_response_tags_fail_typed(body in gen::vecs(gen::u8s(), 0..64)) {
        // Reply tags 4 and 10 are reserved the same way.
        for tag in [4u8, 10] {
            let got = Response::from_wire(&[&[tag][..], &body].concat());
            prop_assert!(matches!(got, Err(NetError::Codec(_))), "tag {tag}: {got:?}");
        }
    }

    fn valid_message_with_trailing_garbage_fails(
        req in requests(),
        junk in gen::in_range_incl(1u8..=255),
    ) {
        let mut bytes = req.to_wire();
        bytes.push(junk);
        prop_assert!(Request::from_wire(&bytes).is_err());
    }

    // --- The frame envelope (correlation id + optional trace context) ---

    fn envelope_roundtrips_over_any_request(
        corr in gen::u64s(),
        trace in gen::option_of(contexts()),
        req in requests(),
    ) {
        let env = Envelope { corr, trace };
        let frame = env.seal(&req);
        let (got, message) = Envelope::open(&frame).unwrap();
        prop_assert_eq!(got, env);
        prop_assert_eq!(frame.len() - message.len(), envelope_len(&env));
        prop_assert_eq!(Request::from_wire(message).unwrap(), req);
    }

    fn arbitrary_bytes_open_to_an_envelope_or_a_typed_error(
        bytes in gen::vecs(gen::u8s(), 0..64),
        lead in gen::in_range_incl(0u8..=1),
    ) {
        // Raw bytes, and the same bytes behind a plausible version/flags
        // pair so the deeper checks run too.
        for frame in [bytes.clone(), [&[1, lead][..], &bytes].concat()] {
            match Envelope::open(&frame) {
                Ok((env, message)) => {
                    let header = frame.len() - message.len();
                    prop_assert_eq!(header, envelope_len(&env));
                    let mut again = Vec::new();
                    env.write(&mut again);
                    prop_assert_eq!(&again[..], &frame[..header]);
                }
                Err(e) => prop_assert!(matches!(e, NetError::Codec(_)), "untyped: {e:?}"),
            }
        }
    }

    fn servers_never_parse_a_frame_without_an_envelope(bytes in gen::vecs(gen::u8s(), 0..64)) {
        let reply = serve_frame(&PongHandler, &bytes, "mem").unwrap_or_else(|error| error);
        let (env, message) = Envelope::open(&reply).unwrap();
        if Envelope::open(&bytes).is_err() {
            prop_assert_eq!(env.corr, CONNECTION_ERROR_ID);
            prop_assert!(matches!(Response::from_wire(message).unwrap(), Response::Error(_)));
        }
    }

    fn every_strict_prefix_of_an_envelope_fails_typed(
        corr in gen::u64s(),
        trace in gen::option_of(contexts()),
    ) {
        let env = Envelope { corr, trace };
        let mut header = Vec::new();
        env.write(&mut header);
        for cut in 0..header.len() {
            prop_assert!(
                matches!(Envelope::open(&header[..cut]), Err(NetError::Codec(_))),
                "prefix of {cut} bytes accepted"
            );
        }
    }

    fn every_bit_flip_in_an_envelope_fails_typed(
        corr in gen::u64s(),
        trace in gen::option_of(contexts()),
        req in requests(),
    ) {
        // Every bit of the header, the version byte included: no flip may
        // read as a different envelope or as a bare message.
        let env = Envelope { corr, trace };
        let frame = env.seal(&req);
        for bit in 0..envelope_len(&env) * 8 {
            let mut damaged = frame.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            let got = Envelope::open(&damaged);
            prop_assert!(matches!(got, Err(NetError::Codec(_))), "flip of bit {bit}: {got:?}");
        }
    }

    fn unknown_flag_bits_are_rejected(
        corr in gen::u64s(),
        trace in gen::option_of(contexts()),
        extra in gen::in_range_incl(1u8..=127),
    ) {
        // Set unknown flag bits and re-seal the checksum, so the flags are
        // the only thing wrong with the envelope.
        let env = Envelope { corr, trace };
        let mut header = Vec::new();
        env.write(&mut header);
        header[1] |= extra << 1;
        let covered = header.len() - 4;
        let sum = fnv1a_32(&header[..covered]).to_be_bytes();
        header[covered..].copy_from_slice(&sum);
        prop_assert!(matches!(
            Envelope::open(&header),
            Err(NetError::Codec("unknown envelope flags"))
        ));
    }
}

fn envelope_len(env: &Envelope) -> usize {
    if env.trace.is_some() {
        TRACED_ENVELOPE_LEN
    } else {
        ENVELOPE_LEN
    }
}

fn fnv1a_32(data: &[u8]) -> u32 {
    data.iter().fold(0x811c_9dc5, |h: u32, &b| (h ^ b as u32).wrapping_mul(0x0100_0193))
}

/// Answers every request with `Pong`.
struct PongHandler;

impl RequestHandler for PongHandler {
    fn handle(&self, _: Request) -> Response {
        Response::Pong
    }
}

// Golden-bytes oracle for the byte-string fast path: the per-element
// encoding — a big-endian u32 count, then every byte on its own.
fn bytes_oracle(v: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(v.len() as u32).to_be_bytes());
    for &b in v {
        out.push(b);
    }
}

prop! {
    #![cases(128)]

    fn byte_strings_encode_as_per_element_bytes(v in gen::vecs(gen::u8s(), 0..600)) {
        let mut want = Vec::new();
        bytes_oracle(&v, &mut want);
        prop_assert_eq!(v.to_wire(), want.clone());
        prop_assert_eq!(Vec::<u8>::from_wire(&want).unwrap(), v.clone());

        let mut some = vec![1u8];
        bytes_oracle(&v, &mut some);
        prop_assert_eq!(Some(v.clone()).to_wire(), some.clone());
        prop_assert_eq!(Option::<Vec<u8>>::from_wire(&some).unwrap(), Some(v));
        prop_assert_eq!(None::<Vec<u8>>.to_wire(), vec![0u8]);
    }

    fn put_many_and_objects_encode_as_per_element_bytes(
        items in gen::vecs(
            Gen::from_fn(|t| Ok((keys().sample(t)?, gen::vecs(gen::u8s(), 0..300).sample(t)?))),
            0..6,
        ),
        present in gen::vecs(gen::bools(), 0..6),
    ) {
        let mut want = vec![2u8];
        want.extend_from_slice(&(items.len() as u32).to_be_bytes());
        for (k, v) in &items {
            // Keys are fixed-width fields, untouched by the fast path.
            k.write(&mut want);
            bytes_oracle(v, &mut want);
        }
        let req = Request::PutMany { items };
        prop_assert_eq!(req.to_wire(), want.clone());
        prop_assert_eq!(Request::from_wire(&want).unwrap(), req.clone());

        let Request::PutMany { items } = req else { unreachable!() };
        let objects: Vec<Option<Vec<u8>>> = items
            .into_iter()
            .zip(present.iter().chain(std::iter::repeat(&true)))
            .map(|((_, v), &p)| p.then_some(v))
            .collect();
        let mut want = vec![3u8];
        want.extend_from_slice(&(objects.len() as u32).to_be_bytes());
        for o in &objects {
            match o {
                None => want.push(0),
                Some(v) => {
                    want.push(1);
                    bytes_oracle(v, &mut want);
                }
            }
        }
        let resp = Response::Objects(objects);
        prop_assert_eq!(resp.to_wire(), want.clone());
        prop_assert_eq!(Response::from_wire(&want).unwrap(), resp);
    }
}

#[test]
fn hostile_byte_string_prefix_fails_before_allocating() {
    // Each claimed length exceeds what follows it by one byte or by ~4 GiB;
    // the length guard must reject it before the body is read or reserved.
    for (claimed, body) in [(4u32, 3usize), (1 << 20, 17), (u32::MAX, 0), (u32::MAX, 64)] {
        let mut evil = claimed.to_be_bytes().to_vec();
        evil.resize(4 + body, 0xAB);
        let err = Vec::<u8>::read(&mut Cursor::new(&evil)).unwrap_err();
        assert!(
            matches!(err, NetError::Codec("vector length exceeds input")),
            "claimed {claimed} over {body} bytes: {err:?}"
        );
        let mut put = vec![1u8];
        ObjectKey::metadata(1, [0; 16]).write(&mut put);
        put.extend_from_slice(&evil);
        assert!(matches!(Request::from_wire(&put), Err(NetError::Codec(_))));
    }
}
