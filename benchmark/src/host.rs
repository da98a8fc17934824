//! The host-speed index every wall measurement is divided by.
//!
//! The sandbox this benchmark runs in changes speed in steps: identical
//! work takes 10 us per ORAM access for half a minute, then 17 us for the
//! next (a shared host; no counters to read). A raw wall reading therefore
//! says more about the minute it was taken in than about the code. Every
//! timed region is bracketed by a fixed reference computation that never
//! calls into the crates, so its time changes only when the host does. A
//! region's *normalised* time is its wall time divided by the mean index
//! of its two brackets. The index reads about 1 at the middle speed of
//! this box, so normalised values read like wall values.
//!
//! Two references (README.md, "Noise", has the measurements behind the
//! choice): single-threaded workloads are divided by the *churn* — hash-map
//! inserts and removes with small allocations, the instruction mix of the
//! tree store. Workloads with two busy threads also slow down when waking
//! the other thread gets slower, which the churn does not see; they are
//! divided by the geometric mean of the churn and an *echo pipeline* —
//! churn slices behind a loopback socket, window 16, the shape of the wire
//! path.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// Reference times at which the index reads 1.
const CHURN_NOMINAL_S: f64 = 0.012;
const ECHO_NOMINAL_S: f64 = 0.016;

/// Xorshift-keyed inserts and removes of 64-byte vectors over a 64 Ki key
/// space.
struct Churn {
    map: HashMap<u64, Vec<u8>>,
    x: u64,
    acc: u64,
}

impl Churn {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            x: 88_172_645_463_325_252,
            acc: 0,
        }
    }

    fn steps(&mut self, n: usize) {
        for _ in 0..n {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            let key = self.x & 0xffff;
            match self.map.remove(&key) {
                Some(v) => self.acc += u64::from(v[0]),
                None => {
                    self.map.insert(key, vec![self.x as u8; 64]);
                }
            }
        }
        black_box(self.acc);
    }
}

/// About 12 ms of churn on the calling thread.
fn churn_index() -> f64 {
    let t = Instant::now();
    Churn::new().steps(120_000);
    t.elapsed().as_secs_f64() / CHURN_NOMINAL_S
}

/// About 16 ms: 400 80-byte messages to an echo thread over loopback, 16
/// in flight, 200 churn steps behind each.
fn echo_index() -> f64 {
    const MESSAGES: usize = 400;
    const WINDOW: usize = 16;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    std::thread::scope(|s| {
        s.spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept the echo client");
            stream.set_nodelay(true).expect("nodelay");
            let mut churn = Churn::new();
            let mut message = [0u8; 80];
            for _ in 0..MESSAGES {
                stream.read_exact(&mut message).expect("read a message");
                churn.steps(200);
                stream.write_all(&message).expect("echo it");
            }
        });
        let mut stream = TcpStream::connect(addr).expect("connect over loopback");
        stream.set_nodelay(true).expect("nodelay");
        let mut message = [7u8; 80];
        let (mut sent, mut echoed) = (0, 0);
        let t = Instant::now();
        while echoed < MESSAGES {
            while sent < MESSAGES && sent - echoed < WINDOW {
                stream.write_all(&message).expect("send a message");
                sent += 1;
            }
            stream.read_exact(&mut message).expect("read its echo");
            echoed += 1;
        }
        t.elapsed().as_secs_f64() / ECHO_NOMINAL_S
    })
}

/// Which reference a region is divided by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// One busy thread: the churn.
    OneThread,
    /// Two busy threads handing work to each other: geometric mean of the
    /// churn and the echo pipeline.
    TwoThreads,
}

impl Probe {
    fn read(self) -> f64 {
        match self {
            Probe::OneThread => churn_index(),
            Probe::TwoThreads => (churn_index() * echo_index()).sqrt(),
        }
    }
}

/// Brackets consecutive regions: each region's closing reading opens the
/// next.
pub struct Brackets {
    probe: Probe,
    last: f64,
}

impl Brackets {
    pub fn open(probe: Probe) -> Self {
        Self {
            probe,
            last: probe.read(),
        }
    }

    /// Runs `body` (which times its own measured region) and returns its
    /// result with the mean index of the readings around it.
    pub fn around<R>(&mut self, body: impl FnOnce() -> R) -> (R, f64) {
        let out = body();
        let after = self.probe.read();
        let mean = (self.last + after) / 2.0;
        self.last = after;
        (out, mean)
    }
}
