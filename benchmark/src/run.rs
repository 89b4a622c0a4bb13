//! Set-up and the two measured loops: closed (one `FrameStream`, next frame
//! after the previous result) and open (frames sent to the TCP server on a
//! fixed schedule, whether or not earlier ones have come back).

use crate::procfs;
use crate::trace::{Tracer, NONE};
use crate::workload::{checksum, Frame, Serve, Spec};
use mesorasi::pointcloud::io;
use mesorasi::serve::protocol::{self, ErrorCode, Frame as Wire, MAX_FRAME_BYTES};
use mesorasi::serve::{Server, ServerConfig, ServerStats};
use mesorasi::{Inference, Logits, PointCloud, Session};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A session ready for traffic, with how long each step of getting there
/// took. For the served workload it also holds the running server and the
/// greeted client connections.
pub struct Ready {
    /// The warmed session.
    pub session: Arc<Session>,
    /// The server and one greeted connection per generator.
    pub served: Option<(Server, Vec<TcpStream>)>,
    /// `SessionBuilder::build`, seconds.
    pub build_s: f64,
    /// `Session::warm`, seconds.
    pub warm_s: f64,
    /// Everything: build, warm, and for the served workload spawn, connect
    /// and HELLO.
    pub total_s: f64,
}

impl Ready {
    /// Closes the connections and stops the server, joining its threads.
    pub fn teardown(self) {
        if let Some((server, conns)) = self.served {
            drop(conns);
            server.shutdown();
        }
    }
}

/// Builds and warms the workload's session and, for the served workload,
/// spawns the server and connects. This is what `setup_s` times.
pub fn setup(spec: &Spec, warm: &PointCloud) -> Ready {
    let start = Instant::now();
    let session = Arc::new(spec.builder().workers(spec.workers()).build());
    let build_s = start.elapsed().as_secs_f64();
    session.warm(warm);
    let warm_s = start.elapsed().as_secs_f64() - build_s;
    let served = spec.serve.map(|serve| {
        let server = Server::spawn(Arc::clone(&session), ServerConfig::default())
            .expect("bind a loopback port");
        let conns = (0..serve.connections).map(|_| connect(&server)).collect();
        (server, conns)
    });
    Ready { session, served, build_s, warm_s, total_s: start.elapsed().as_secs_f64() }
}

fn connect(server: &Server) -> TcpStream {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect to the server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    // A reply that never comes must end the run, not hang it.
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("set read timeout");
    match protocol::read_frame(&mut stream) {
        Ok(Wire::Hello { version, .. }) if version == protocol::PROTOCOL_VERSION => stream,
        other => panic!("server did not greet with a matching HELLO: {other:?}"),
    }
}

/// What became of one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A result arrived; its checksum and whether every value is finite.
    Output {
        /// [`checksum`] of the output matrix.
        checksum: u64,
        /// No NaN or infinity in the output.
        finite: bool,
    },
    /// The server shed the request.
    Shed,
    /// Decode failure or a typed server error other than a shed.
    Errored,
    /// No reply before the connection closed or timed out.
    Missing,
}

/// One frame as the loop saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Index of the frame's input in the workload's frame table.
    pub input: usize,
    /// Encoded bytes (or due time, open loop) to typed result, ms.
    pub latency_ms: f64,
    /// Time inside `read_xyz`, ms (closed loop; 0 on the wire path).
    pub decode_ms: f64,
    /// How late the generator sent the frame, ms (open loop).
    pub late_ms: f64,
    /// Whether the frame's spans were recorded.
    pub traced: bool,
    /// Result.
    pub outcome: Outcome,
}

/// A loop's records plus the wall and CPU time of the window they span.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// One record per frame attempted, in send order.
    pub records: Vec<Record>,
    /// Wall time of the window, seconds.
    pub wall_s: f64,
    /// Process CPU (user + system, all threads) over the window, seconds.
    pub cpu_s: f64,
    /// Server counters at the start and end of the window, and the deepest
    /// queue seen between (served workload, traced run only).
    pub server: Option<(ServerStats, ServerStats, u64)>,
}

/// Whether frame `i` is traced: alternating blocks of `block` frames, where
/// a block is one full cycle of the input mix. One window then yields the
/// traced and the untraced median over the *same* inputs, so their ratio is
/// the tracing overhead and not a difference between clouds.
fn in_traced_block(i: usize, block: usize) -> bool {
    (i / block.max(1)).is_multiple_of(2)
}

/// When a closed loop ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Until {
    /// After this many seconds (the frame in flight finishes).
    Seconds(f64),
    /// After exactly this many frames.
    Frames(usize),
}

/// Closed loop: frames `first..` of the cycled `pool` through one
/// `FrameStream`, each timed from its `.xyz` bytes to the typed result.
pub fn closed_loop(
    session: &Session,
    pool: &[Frame],
    first: usize,
    until: Until,
    mut tracer: Option<&mut Tracer>,
) -> LoopResult {
    let mut stream = session.frames();
    let mut records = Vec::new();
    let (start, cpu_start) = (Instant::now(), procfs::cpu_seconds());
    let mut i = 0usize;
    let more = |i: usize| match until {
        Until::Seconds(s) => start.elapsed().as_secs_f64() < s,
        Until::Frames(n) => i < n,
    };
    while more(i) {
        let input = (first + i) % pool.len();
        let traced = tracer.is_some() && in_traced_block(i, pool.len());
        let t0 = Instant::now();
        let decoded = io::read_xyz(pool[input].xyz.as_slice());
        let t1 = Instant::now();
        let (outcome, t2) = match &decoded {
            Ok(cloud) => {
                let out = stream.infer(cloud);
                let t2 = Instant::now();
                let m = out.logits();
                (Outcome::Output { checksum: checksum(m), finite: m.is_finite() }, t2)
            }
            Err(_) => (Outcome::Errored, t1),
        };
        if let (true, Some(tracer)) = (traced, tracer.as_deref_mut()) {
            let frame = (first + i) as i64;
            let root = tracer.record("frame", frame, NONE, t0, t2);
            tracer.record("pointcloud.decode", frame, root, t0, t1);
            tracer.record("networks.infer", frame, root, t1, t2);
        }
        records.push(Record {
            input,
            latency_ms: (t2 - t0).as_secs_f64() * 1e3,
            decode_ms: (t1 - t0).as_secs_f64() * 1e3,
            late_ms: 0.0,
            traced,
            outcome,
        });
        i += 1;
    }
    LoopResult {
        records,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: procfs::cpu_seconds() - cpu_start,
        server: None,
    }
}

/// A clock the open-loop pacer can be tested against.
pub trait Clock {
    /// Nanoseconds since the clock's epoch.
    fn now_ns(&self) -> u64;
    /// Blocks until `now_ns() >= t_ns`; returns at once when already past.
    fn sleep_until(&self, t_ns: u64);
}

/// Wall clock counting from a shared epoch.
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn sleep_until(&self, t_ns: u64) {
        if let Some(wait) = t_ns.checked_sub(self.now_ns()) {
            std::thread::sleep(Duration::from_nanos(wait));
        }
    }
}

/// A fixed-rate send schedule: frame `i` is due at `first_due + i·period`
/// no matter when earlier frames were actually sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Due time of frame 0, ns.
    pub first_due_ns: u64,
    /// Gap between due times, ns.
    pub period_ns: u64,
}

impl Schedule {
    /// When frame `i` should be sent.
    pub fn due_ns(&self, i: usize) -> u64 {
        self.first_due_ns + i as u64 * self.period_ns
    }
}

/// Sends `n` frames on `schedule`: waits for each due time, calls `send`,
/// and returns per frame `(due_ns, sent_ns)` where `sent_ns` is when the
/// send *began*. A send that overruns its period delays the next frame's
/// start but never its due time, so the overrun shows up as lateness (and
/// in that frame's latency) instead of silently lowering the offered rate.
pub fn pace<C: Clock>(
    clock: &C,
    schedule: Schedule,
    n: usize,
    mut send: impl FnMut(usize),
) -> Vec<(u64, u64)> {
    (0..n)
        .map(|i| {
            let due = schedule.due_ns(i);
            clock.sleep_until(due);
            let sent = clock.now_ns();
            send(i);
            (due, sent)
        })
        .collect()
}

/// The frame-table indices one connection sends: its hot set cycled, with
/// every `fresh_every`-th frame replaced by the next never-sent cloud.
/// Hot clouds of connection `c` sit at `c·hot_set..`, fresh ones follow all
/// hot sets and are handed out round-robin over the connections.
pub fn serve_plan(serve: &Serve, conn: usize, frames: usize) -> Vec<usize> {
    let hot_base = conn * serve.hot_set;
    let fresh_base = serve.connections * serve.hot_set;
    let (mut hot, mut fresh) = (0usize, 0usize);
    (0..frames)
        .map(|i| {
            if (i + 1) % serve.fresh_every == 0 {
                fresh += 1;
                fresh_base + (fresh - 1) * serve.connections + conn
            } else {
                hot += 1;
                hot_base + (hot - 1) % serve.hot_set
            }
        })
        .collect()
}

/// How many distinct frames [`serve_plan`] needs in the table.
pub fn serve_table_len(serve: &Serve, frames_per_conn: usize) -> usize {
    serve.connections * (serve.hot_set + frames_per_conn / serve.fresh_every)
}

/// One request as its sender saw it.
struct Sent {
    due_ns: u64,
    sent_ns: u64,
    encoded: Instant,
}

struct Reply {
    id: u64,
    done: Instant,
    decode: (Instant, Instant),
    outcome: Outcome,
}

/// Reads replies until `n` have arrived or the connection fails.
fn read_replies(mut stream: TcpStream, n: usize) -> Vec<Reply> {
    let mut replies = Vec::with_capacity(n);
    let mut payload = Vec::new();
    while replies.len() < n {
        let mut len = [0u8; 4];
        if stream.read_exact(&mut len).is_err() {
            break;
        }
        let len = u32::from_le_bytes(len);
        if len > MAX_FRAME_BYTES {
            break;
        }
        payload.resize(len as usize, 0);
        if stream.read_exact(&mut payload).is_err() {
            break;
        }
        let t0 = Instant::now();
        let decoded = protocol::decode(&payload);
        let done = Instant::now();
        let (id, outcome) = match decoded {
            Ok(Wire::Result { id, mut mats }) if !mats.is_empty() => {
                let typed = Inference::Classification(Logits::new(mats.swap_remove(0)));
                let m = typed.logits();
                (id, Outcome::Output { checksum: checksum(m), finite: m.is_finite() })
            }
            Ok(Wire::Error { id, code: ErrorCode::Shed, .. }) => (id, Outcome::Shed),
            Ok(Wire::Error { id, .. }) => (id, Outcome::Errored),
            _ => break,
        };
        replies.push(Reply { id, done, decode: (t0, done), outcome });
    }
    replies
}

/// One open-loop window through the server: connection `c` sends the
/// frames `plans[c]` at `serve.rate_hz`, offset by `c / connections` of a
/// period so arrivals are evenly spaced, and the call returns when every
/// reply is in (or a connection failed). Latency runs from a frame's *due*
/// time to its decoded reply; the window runs from the first due time to
/// the last reply. `first` is the index of `plans[c][0]` in the
/// connection's whole stream. With `poll` the main thread reads
/// `Server::stats` every 50 ms for the queue depth.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    server: &Server,
    conns: &[TcpStream],
    serve: &Serve,
    table: &[Frame],
    plans: &[&[usize]],
    first: usize,
    poll: bool,
    mut tracer: Option<&mut Tracer>,
) -> LoopResult {
    let epoch = Instant::now();
    let period_ns = (1e9 / serve.rate_hz) as u64;
    let lead_ns = 5_000_000; // time for every thread to reach its first sleep
    let schedule = |c: usize| Schedule {
        first_due_ns: lead_ns + period_ns * c as u64 / serve.connections as u64,
        period_ns,
    };
    let cpu_start = procfs::cpu_seconds();
    let stats_start = if poll { server.stats() } else { ServerStats::default() };

    let mut depth_max = 0u64;
    let per_conn: Vec<(Vec<Sent>, Vec<Reply>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter()
            .zip(plans)
            .enumerate()
            .map(|(c, (stream, &plan))| {
                let reader_stream = stream.try_clone().expect("clone the connection");
                let reader = scope.spawn(move || read_replies(reader_stream, plan.len()));
                let sender = scope.spawn(move || {
                    let mut stream = stream;
                    let mut buf = Vec::new();
                    let mut encoded_at = Vec::with_capacity(plan.len());
                    let sent = pace(&WallClock(epoch), schedule(c), plan.len(), |i| {
                        let cloud = table[plan[i]].cloud.clone();
                        buf.clear();
                        protocol::encode(&Wire::Infer { id: i as u64, cloud }, &mut buf);
                        encoded_at.push(Instant::now());
                        // A failed write shows up as missing replies.
                        let _ = stream.write_all(&buf);
                    });
                    sent.into_iter()
                        .zip(encoded_at)
                        .map(|((due_ns, sent_ns), encoded)| Sent { due_ns, sent_ns, encoded })
                        .collect::<Vec<_>>()
                });
                (sender, reader)
            })
            .collect();
        while poll && !handles.iter().all(|(_, r)| r.is_finished()) {
            depth_max = depth_max.max(server.stats().queue_depth);
            std::thread::sleep(Duration::from_millis(50));
        }
        handles
            .into_iter()
            .map(|(s, r)| (s.join().expect("sender thread"), r.join().expect("reader thread")))
            .collect()
    });
    let cpu_s = procfs::cpu_seconds() - cpu_start;
    let window_end = Instant::now();
    let server_stats = poll.then(|| (stats_start, server.stats(), depth_max));

    let at = |ns: u64| epoch + Duration::from_nanos(ns);
    let mut records = Vec::new();
    let mut last_done = at(lead_ns);
    for (c, (sends, replies)) in per_conn.iter().enumerate() {
        for (i, &Sent { due_ns: due, sent_ns: sent, encoded }) in sends.iter().enumerate() {
            let reply = replies.iter().find(|r| r.id == i as u64);
            let done = reply.map_or(window_end, |r| r.done);
            last_done = last_done.max(done);
            let block = serve.hot_set * serve.fresh_every;
            let traced = tracer.is_some() && in_traced_block(first + i, block);
            if let (true, Some(tracer), Some(r)) = (traced, tracer.as_deref_mut(), reply) {
                let frame = ((first + i) * serve.connections + c) as i64;
                let root = tracer.record("frame", frame, NONE, at(due), r.done);
                tracer.record("serve.encode", frame, root, at(sent), encoded);
                tracer.record("serve.roundtrip", frame, root, encoded, r.decode.0);
                tracer.record("serve.decode", frame, root, r.decode.0, r.decode.1);
            }
            records.push(Record {
                input: plans[c][i],
                latency_ms: done.saturating_duration_since(at(due)).as_secs_f64() * 1e3,
                decode_ms: 0.0,
                late_ms: sent.saturating_sub(due) as f64 / 1e6,
                traced,
                outcome: reply.map_or(Outcome::Missing, |r| r.outcome),
            });
        }
    }
    let wall_s = last_done.saturating_duration_since(at(lead_ns)).as_secs_f64();
    LoopResult { records, wall_s, cpu_s, server: server_stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to: sleeping jumps to the target,
    /// and each send costs whatever the test says.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }

        fn sleep_until(&self, t_ns: u64) {
            self.0.set(self.0.get().max(t_ns));
        }
    }

    #[test]
    fn due_times_never_slip_and_overruns_count_as_lateness() {
        let clock = FakeClock(Cell::new(0));
        let schedule = Schedule { first_due_ns: 100, period_ns: 40 };
        // Frame 1's send takes 100 ns — two and a half periods.
        let cost = [5, 100, 5, 5, 5];
        let sent = pace(&clock, schedule, 5, |i| clock.0.set(clock.0.get() + cost[i]));
        let due: Vec<u64> = sent.iter().map(|&(d, _)| d).collect();
        assert_eq!(due, vec![100, 140, 180, 220, 260], "the schedule is fixed in advance");
        let late: Vec<u64> = sent.iter().map(|&(d, s)| s - d).collect();
        // Frame 1 starts on time and ends at 240; frames 2 and 3 were due
        // at 180 and 220 and go out back to back; frame 4 is on time again.
        assert_eq!(late, vec![0, 0, 60, 25, 0]);
    }

    #[test]
    fn a_late_start_is_caught_up_not_rescheduled() {
        let clock = FakeClock(Cell::new(1_000));
        let sent = pace(&clock, Schedule { first_due_ns: 0, period_ns: 300 }, 4, |_| {
            clock.0.set(clock.0.get() + 10)
        });
        assert_eq!(sent, vec![(0, 1_000), (300, 1_010), (600, 1_020), (900, 1_030)]);
    }

    #[test]
    fn serve_plans_mix_hot_and_never_repeated_fresh_frames() {
        let serve = Serve { connections: 2, rate_hz: 25.0, hot_set: 4, fresh_every: 4 };
        let plans: Vec<Vec<usize>> = (0..2).map(|c| serve_plan(&serve, c, 16)).collect();
        assert_eq!(plans[0][..8], [0, 1, 2, 8, 3, 0, 1, 10]);
        assert_eq!(plans[1][..8], [4, 5, 6, 9, 7, 4, 5, 11]);
        let table_len = serve_table_len(&serve, 16);
        assert_eq!(table_len, 16);
        let mut fresh: Vec<usize> = plans.iter().flatten().copied().filter(|&i| i >= 8).collect();
        assert_eq!(fresh.len(), 8, "a quarter of 32 frames");
        fresh.sort_unstable();
        fresh.dedup();
        assert_eq!(fresh.len(), 8, "no fresh frame is ever sent twice");
        assert!(plans.iter().flatten().all(|&i| i < table_len));
    }
}
