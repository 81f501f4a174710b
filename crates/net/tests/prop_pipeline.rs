//! Property tests for the pipelining layer: the read-or-wait dispatcher's
//! "never cross-match payloads" invariant under out-of-order replies,
//! dropped frames, a waiter that times out, a connection failed partway
//! through, and many threads taking turns reading. The dispatcher is
//! socket-free on purpose (see `net/src/pipeline.rs`), so these properties
//! read from scripted frame sources and pin the protocol logic without
//! any socket timing in the loop. The envelope that carries the
//! correlation id is property-tested with the rest of the wire codec in
//! `prop_wire.rs`.

use sharoes_net::{CorrDispatcher, ErrorClass, FrameSource, Inbound};
use sharoes_testkit::prelude::*;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// The payload the reply for slot `i` carries: a unique function of the
/// slot, so any cross-delivery shows up as a byte mismatch.
fn payload(i: usize) -> Vec<u8> {
    let mut v = (i as u64).to_be_bytes().to_vec();
    v.extend_from_slice(&[0xA5; 3]);
    v.push(i as u8);
    v
}

fn orphans() -> u64 {
    sharoes_obs::global().counter("net_corr_orphans_total").get()
}

/// One generated plan: per-slot reply ranks (sorting them gives the
/// reordered delivery schedule) and which slots get dropped on the floor
/// (their frames never arrive).
#[derive(Clone, Debug)]
struct Plan {
    ranks: Vec<u64>,
    dropped: Vec<bool>,
}

fn plans(max: u64) -> Gen<Plan> {
    Gen::from_fn(move |t| {
        let n = 1 + (t.u64() % max) as usize;
        let mut ranks = Vec::with_capacity(n);
        let mut dropped = Vec::with_capacity(n);
        for _ in 0..n {
            ranks.push(t.u64());
            dropped.push(t.u64() % 4 == 0);
        }
        Ok(Plan { ranks, dropped })
    })
}

/// Reply order: slot indices sorted by their rank (stable, so equal ranks
/// keep index order — still an arbitrary reorder vs registration).
fn schedule(plan: &Plan) -> Vec<usize> {
    let mut order: Vec<usize> = (0..plan.ranks.len()).collect();
    order.sort_by_key(|&i| plan.ranks[i]);
    order
}

/// One step of a scripted connection.
enum Step {
    /// The source yields this.
    Yield(Inbound),
    /// The source reads nothing until the timing-out waiter has given up:
    /// it idles every reader until then.
    StallUntil(Arc<AtomicBool>),
    /// The test thread fails the connection with `fail_all` while the
    /// source waits; the reader then reads on.
    FailAll(mpsc::SyncSender<()>, Arc<Mutex<mpsc::Receiver<()>>>),
}

/// A scripted frame source. It counts the readers inside it, and once the
/// script runs out it idles each reader until its deadline.
struct Script {
    steps: VecDeque<Step>,
    reading: Arc<AtomicUsize>,
    overlapped: Arc<AtomicBool>,
}

impl Script {
    fn new(steps: impl IntoIterator<Item = Step>) -> Script {
        Script {
            steps: steps.into_iter().collect(),
            reading: Arc::new(AtomicUsize::new(0)),
            overlapped: Arc::new(AtomicBool::new(false)),
        }
    }

    fn next(&mut self, deadline: Instant) -> Inbound {
        match self.steps.pop_front() {
            Some(Step::Yield(inbound)) => inbound,
            Some(Step::StallUntil(given_up)) => {
                while !given_up.load(Ordering::SeqCst) {
                    if Instant::now() >= deadline {
                        self.steps.push_front(Step::StallUntil(given_up));
                        return Inbound::Idle;
                    }
                    thread::sleep(Duration::from_millis(1));
                }
                Inbound::Idle
            }
            Some(Step::FailAll(started, done)) => {
                started.send(()).expect("test thread waits for the failure point");
                done.lock().unwrap().recv().expect("test thread failed the connection");
                Inbound::Idle
            }
            None => {
                thread::sleep(deadline.saturating_duration_since(Instant::now()));
                Inbound::Idle
            }
        }
    }
}

impl FrameSource for Script {
    fn next_frame(&mut self, deadline: Instant) -> Inbound {
        if self.reading.fetch_add(1, Ordering::SeqCst) != 0 {
            self.overlapped.store(true, Ordering::SeqCst);
        }
        let out = self.next(deadline);
        self.reading.fetch_sub(1, Ordering::SeqCst);
        out
    }
}

fn reply(corr: u64, i: usize) -> Step {
    Step::Yield(Inbound::Reply { corr, frame: payload(i) })
}

sharoes_testkit::prop! {
    #![cases(64)]

    fn reordered_and_dropped_replies_never_cross_match(plan in plans(24)) {
        // Ids are handed out from 1, so slot i gets id i + 1.
        let ids: Vec<u64> = (1..=plan.ranks.len() as u64).collect();
        let mut steps: Vec<Step> = schedule(&plan)
            .into_iter()
            .filter(|&i| !plan.dropped[i])
            .map(|i| reply(ids[i], i))
            .collect();
        // The connection tears once the missing frames are noticed.
        steps.push(Step::Yield(Inbound::Lost("frames dropped".into())));
        let d = CorrDispatcher::new(Script::new(steps));
        for &id in &ids {
            prop_assert_eq!(d.register().unwrap(), id);
        }

        // Wait in yet another order (reverse of delivery), one thread
        // reading on behalf of the rest: every delivered slot gets exactly
        // its own payload, every dropped slot a typed retryable error —
        // never someone else's bytes.
        for i in schedule(&plan).into_iter().rev() {
            let got = d.wait(ids[i], Duration::from_secs(5));
            if plan.dropped[i] {
                let err = got.expect_err("dropped frame must surface an error");
                prop_assert_eq!(err.class(), ErrorClass::Retryable);
            } else {
                prop_assert_eq!(got.unwrap(), payload(i));
            }
        }
    }

    fn concurrent_waiters_take_turns_reading_and_get_their_own_payloads(
        plan in plans(8),
        stall_at in gen::in_range(0usize..9),
        fail_at in gen::in_range(0usize..10),
    ) {
        // Slot 0 is the waiter that times out: its reply is scripted only
        // after a stall that lasts until it has given up, so it arrives
        // late, as an orphan. `fail_all` lands at a scripted point; the
        // frames scripted after it are never read. Dropped slots' frames
        // never arrive at all.
        let n = plan.ranks.len();
        let ids: Vec<u64> = (1..=n as u64).collect();
        let given_up = Arc::new(AtomicBool::new(false));
        let (started_tx, started_rx) = mpsc::sync_channel(1);
        let (done_tx, done_rx) = mpsc::sync_channel(1);
        let done_rx = Arc::new(Mutex::new(done_rx));

        let mut order: Vec<usize> =
            schedule(&plan).into_iter().filter(|&i| i != 0 && !plan.dropped[i]).collect();
        let stall_at = stall_at.min(order.len());
        let mut steps: Vec<Step> = order.drain(..stall_at).map(|i| reply(ids[i], i)).collect();
        steps.push(Step::StallUntil(Arc::clone(&given_up)));
        steps.push(reply(ids[0], 0));
        steps.extend(order.into_iter().map(|i| reply(ids[i], i)));
        let fail_at = fail_at.min(steps.len());
        steps.insert(fail_at, Step::FailAll(started_tx, done_rx));
        // Which slots' replies precede the failure, and so are read if
        // anyone is still waiting to read them.
        let position = |slot: usize| {
            steps.iter().position(|step| {
                matches!(step, Step::Yield(Inbound::Reply { corr, .. }) if *corr == ids[slot])
            })
        };
        let delivered: Vec<bool> =
            (0..n).map(|i| position(i).is_some_and(|at| at < fail_at)).collect();
        // The late reply is read only while some other waiter still needs
        // a frame from behind it (or one that never comes).
        let zero_at = position(0).expect("slot 0's reply is scripted");
        let orphan_expected = delivered[0]
            && (1..n).any(|i| position(i).is_none_or(|at| at > zero_at));

        let script = Script::new(steps);
        let overlapped = Arc::clone(&script.overlapped);
        let d = Arc::new(CorrDispatcher::new(script));
        for &id in &ids {
            prop_assert_eq!(d.register().unwrap(), id);
        }
        let orphans_before = orphans();
        let start = Instant::now();
        let outcomes = thread::scope(|scope| {
            let waiters: Vec<_> = ids
                .iter()
                .enumerate()
                .map(|(i, &id)| {
                    let d = Arc::clone(&d);
                    let given_up = Arc::clone(&given_up);
                    scope.spawn(move || {
                        let timeout = Duration::from_millis(if i == 0 { 20 } else { 5_000 });
                        let got = d.wait(id, timeout);
                        if i == 0 {
                            given_up.store(true, Ordering::SeqCst);
                        }
                        got
                    })
                })
                .collect();
            // The failure point: fail the connection while the reader is
            // inside the source, then let it read on. A run whose waiters
            // all finish first never reaches it.
            let finished = Arc::new(AtomicBool::new(false));
            let (d2, finished2) = (Arc::clone(&d), Arc::clone(&finished));
            scope.spawn(move || loop {
                match started_rx.recv_timeout(Duration::from_millis(5)) {
                    Ok(()) => {
                        d2.fail_all("scripted failure");
                        done_tx.send(()).unwrap();
                        return;
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) if !finished2.load(Ordering::SeqCst) => {}
                    Err(_) => return,
                }
            });
            let outcomes =
                waiters.into_iter().map(|w| w.join().expect("waiter thread")).collect::<Vec<_>>();
            finished.store(true, Ordering::SeqCst);
            outcomes
        });

        prop_assert!(!overlapped.load(Ordering::SeqCst), "two threads read at once");
        prop_assert!(start.elapsed() < Duration::from_secs(4), "a waiter stayed parked");
        for (i, got) in outcomes.into_iter().enumerate() {
            if i != 0 && delivered[i] && !plan.dropped[i] {
                prop_assert_eq!(got.unwrap(), payload(i), "slot {i} got crossed bytes");
            } else {
                let err = got.expect_err("a reply that never arrived in time must fail");
                prop_assert_eq!(err.class(), ErrorClass::Retryable);
            }
        }
        if orphan_expected {
            prop_assert!(orphans() > orphans_before, "the late reply was not an orphan");
        }
    }

    fn late_replies_are_orphaned_not_redelivered(plan in plans(24)) {
        // Time out every waiter, then deliver late: nothing may be
        // deliverable afterwards (each late frame is an orphan), and a
        // fresh slot must never observe a stale payload.
        let n = plan.ranks.len();
        let steps = schedule(&plan).into_iter().map(|i| reply(i as u64 + 1, i));
        let d = CorrDispatcher::new(Script::new(steps));
        let ids: Vec<u64> = (0..n).map(|_| d.register().unwrap()).collect();
        for &id in &ids {
            let err = d.wait(id, Duration::from_millis(0)).unwrap_err();
            prop_assert_eq!(err.class(), ErrorClass::Retryable);
        }
        let before = orphans();
        let fresh = d.register().unwrap();
        prop_assert!(!ids.contains(&fresh), "fresh id must never reuse a live one");
        let err = d.wait(fresh, Duration::from_millis(2)).unwrap_err();
        prop_assert_eq!(err.class(), ErrorClass::Retryable);
        prop_assert!(orphans() >= before + n as u64, "late replies were not orphaned");
        for &id in &ids {
            prop_assert!(d.wait(id, Duration::from_millis(0)).is_err());
        }
    }
}
