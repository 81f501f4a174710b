//! Property tests for the pipelining layer: the dispatcher's "never
//! cross-match payloads" invariant under fault injection — out-of-order
//! completion, dropped frames, concurrent waiters. The dispatcher is
//! socket-free on purpose (see `net/src/pipeline.rs`), so these properties
//! pin the protocol logic without any socket timing in the loop. The
//! envelope that carries the correlation id is property-tested with the
//! rest of the wire codec in `prop_wire.rs`.

use sharoes_net::{CorrDispatcher, ErrorClass};
use sharoes_testkit::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// The payload a completion for slot `i` carries: a unique function of the
/// slot, so any cross-delivery shows up as a byte mismatch.
fn payload(i: usize) -> Vec<u8> {
    let mut v = (i as u64).to_be_bytes().to_vec();
    v.extend_from_slice(&[0xA5; 3]);
    v.push(i as u8);
    v
}

/// One generated fault plan: per-slot completion ranks (sorting them gives
/// the reordered delivery schedule) and which slots get dropped on the
/// floor (their frames never arrive).
#[derive(Clone, Debug)]
struct Plan {
    ranks: Vec<u64>,
    dropped: Vec<bool>,
}

fn plans() -> Gen<Plan> {
    Gen::from_fn(|t| {
        let n = 1 + (t.u64() % 24) as usize;
        let mut ranks = Vec::with_capacity(n);
        let mut dropped = Vec::with_capacity(n);
        for _ in 0..n {
            ranks.push(t.u64());
            dropped.push(t.u64() % 4 == 0);
        }
        Ok(Plan { ranks, dropped })
    })
}

/// Completion order: slot indices sorted by their rank (stable, so equal
/// ranks keep index order — still an arbitrary reorder vs registration).
fn schedule(plan: &Plan) -> Vec<usize> {
    let mut order: Vec<usize> = (0..plan.ranks.len()).collect();
    order.sort_by_key(|&i| plan.ranks[i]);
    order
}

sharoes_testkit::prop! {
    #![cases(64)]

    fn reordered_and_dropped_completions_never_cross_match(plan in plans()) {
        let d = CorrDispatcher::new();
        let ids: Vec<u64> =
            (0..plan.ranks.len()).map(|_| d.register().unwrap()).collect();

        // Deliver completions out of registration order; dropped slots
        // never see their frame.
        let mut delivered = 0usize;
        for i in schedule(&plan) {
            if !plan.dropped[i] {
                d.complete(ids[i], Ok(payload(i)));
                delivered += 1;
            }
        }
        // The connection tears once the missing frames are noticed (the
        // real reader loop does this on any read/codec error).
        if delivered < ids.len() {
            d.fail_all("frames dropped");
        }

        // Collect in yet another order (reverse of delivery): every
        // delivered slot gets exactly its own payload, every dropped slot
        // a typed retryable error — never someone else's bytes.
        for i in schedule(&plan).into_iter().rev() {
            let got = d.wait(ids[i], Duration::from_millis(200));
            if plan.dropped[i] {
                let err = got.expect_err("dropped frame must surface an error");
                prop_assert_eq!(err.class(), ErrorClass::Retryable);
            } else {
                prop_assert_eq!(got.unwrap(), payload(i));
            }
        }
    }

    fn concurrent_waiters_each_get_their_own_payload(plan in plans()) {
        let d = Arc::new(CorrDispatcher::new());
        let ids: Vec<u64> =
            (0..plan.ranks.len()).map(|_| d.register().unwrap()).collect();

        // Waiters park first, from many threads; then a "server" thread
        // completes in the shuffled schedule with drops. The parked-waiter
        // path exercises the condvar wakeups, not just the fast path.
        let outcomes = std::thread::scope(|scope| {
            let waiters: Vec<_> = ids
                .iter()
                .map(|&id| {
                    let d = Arc::clone(&d);
                    scope.spawn(move || d.wait(id, Duration::from_secs(10)))
                })
                .collect();
            let server = {
                let d = Arc::clone(&d);
                let plan = &plan;
                let ids = &ids;
                scope.spawn(move || {
                    let mut all = true;
                    for i in schedule(plan) {
                        if plan.dropped[i] {
                            all = false;
                        } else {
                            d.complete(ids[i], Ok(payload(i)));
                        }
                    }
                    if !all {
                        d.fail_all("frames dropped");
                    }
                })
            };
            server.join().expect("server thread");
            waiters.into_iter().map(|w| w.join().expect("waiter thread")).collect::<Vec<_>>()
        });

        for (i, got) in outcomes.into_iter().enumerate() {
            if plan.dropped[i] {
                let err = got.expect_err("dropped frame must surface an error");
                prop_assert_eq!(err.class(), ErrorClass::Retryable);
            } else {
                prop_assert_eq!(got.unwrap(), payload(i), "slot {i} got crossed bytes");
            }
        }
    }

    fn late_completions_are_orphaned_not_redelivered(plan in plans()) {
        // Time out every waiter, then deliver late: nothing may be
        // deliverable afterwards (each late frame is an orphan), and fresh
        // slots must never observe a stale payload.
        let d = CorrDispatcher::new();
        let ids: Vec<u64> =
            (0..plan.ranks.len()).map(|_| d.register().unwrap()).collect();
        for &id in &ids {
            let err = d.wait(id, Duration::from_millis(0)).unwrap_err();
            prop_assert_eq!(err.class(), ErrorClass::Retryable);
        }
        for i in schedule(&plan) {
            d.complete(ids[i], Ok(payload(i)));
        }
        let fresh = d.register().unwrap();
        prop_assert!(!ids.contains(&fresh), "fresh id must never reuse a live one");
        let err = d.wait(fresh, Duration::from_millis(0)).unwrap_err();
        prop_assert_eq!(err.class(), ErrorClass::Retryable);
    }
}
